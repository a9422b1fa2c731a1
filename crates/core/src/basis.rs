//! Geometry and basis expansion: Alg. 1 (serial) vs Alg. 2 (batched).
//!
//! This module turns a collated [`GraphBatch`] into on-tape bond lengths,
//! bond vectors, angles, and their radial/angular basis expansions. The
//! whole chain is differentiable with respect to atomic positions and a
//! per-graph strain tensor, which is how the reference model obtains
//! forces and stresses by automatic differentiation.
//!
//! Two code paths reproduce the paper's Alg. 1 and Alg. 2:
//!
//! * **Serial** — loops over member graphs, slicing positions/lattices per
//!   graph and running the (unfused) basis chain on each, then
//!   concatenating results. Every small op is its own kernel: this is the
//!   reference implementation's CPU-bound launch storm.
//! * **Batched** — computes everything once over the flat batch arrays,
//!   with the periodic-image offset expressed as a single block-diagonal
//!   GEMM (`B_I @ B_L`, Alg. 2 line 11).

use crate::config::{ModelConfig, ENVELOPE_P};
use fc_crystal::GraphBatch;
use fc_tensor::{Axis, Shape, SrbfCfg, Tape, Tensor, Var};
use std::sync::Arc;

/// On-tape geometry of a batch.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    /// Cartesian positions `(N, 3)`; a differentiable input when force
    /// derivatives are requested.
    pub positions: Var,
    /// Per-graph strain `(3G, 3)`, zero-valued differentiable input;
    /// `Some` only when stress derivatives are requested.
    pub strain: Option<Var>,
    /// (Strained) lattice rows `(3G, 3)`.
    pub lattices: Var,
    /// Bond vectors `(B, 3)`.
    pub bond_vec: Var,
    /// Bond lengths `(B, 1)`.
    pub bond_r: Var,
    /// Bond angles `(A, 1)` (radians).
    pub theta: Var,
}

/// Geometry plus basis expansions.
#[derive(Clone, Copy, Debug)]
pub struct BasisOut {
    /// The differentiable geometry.
    pub geom: Geometry,
    /// Radial basis `(B, n_rbf)` (the paper's ẽ, before the embedding
    /// linears produce `e⁰`, `e^a`, `e^b`).
    pub rbf: Var,
    /// Angular Fourier basis `(A, 2K+1)` (the paper's ã).
    pub abf: Var,
}

impl ModelConfig {
    /// sRBF kernel configuration implied by this model config.
    pub fn srbf_cfg(&self) -> SrbfCfg {
        SrbfCfg::new(self.n_rbf, self.atom_cutoff, ENVELOPE_P)
    }
}

/// Compute geometry + basis for `batch` at the config's optimization
/// level. `need_derivatives` makes positions (and strain) differentiable
/// inputs for the energy-derivative force/stress path.
pub fn compute_basis(
    tape: &Tape,
    batch: &GraphBatch,
    cfg: &ModelConfig,
    need_derivatives: bool,
) -> BasisOut {
    let geom_inputs = make_inputs(tape, batch, need_derivatives);
    if cfg.opt_level.batched_basis() {
        batched_basis(tape, batch, cfg, geom_inputs)
    } else {
        serial_basis(tape, batch, cfg, geom_inputs)
    }
}

/// Position/strain/lattice leaves shared by both algorithms.
struct GeomInputs {
    positions: Var,
    strain: Option<Var>,
    lattices: Var,
}

/// The geometry leaves: the batch's arrays go on the tape as copies in
/// pool buffers, which the tape's reset files for the next call's copies.
fn make_inputs(tape: &Tape, batch: &GraphBatch, need_derivatives: bool) -> GeomInputs {
    let pos0 = if need_derivatives {
        tape.input(batch.positions.pooled_copy())
    } else {
        tape.constant(batch.positions.pooled_copy())
    };
    let lat0 = tape.constant(batch.lattices.pooled_copy());
    if need_derivatives {
        // Apply a zero-valued strain ε: x' = x + x@ε_g, L' = L + L@ε_g.
        // dE/dε is then the (unnormalised) virial.
        let strain = tape.input(Tensor::pooled_zeros(batch.n_graphs * 3, 3));
        let pos = {
            let dp = tape.block_diag_matmul(pos0, strain, batch.atom_graph.clone(), false);
            tape.add(pos0, dp)
        };
        let lat = {
            let dl = tape.block_diag_matmul(lat0, strain, batch.lattice_graph.clone(), false);
            tape.add(lat0, dl)
        };
        GeomInputs { positions: pos, strain: Some(strain), lattices: lat }
    } else {
        GeomInputs { positions: pos0, strain: None, lattices: lat0 }
    }
}

/// Alg. 2: one batched pass over the flat arrays.
fn batched_basis(
    tape: &Tape,
    batch: &GraphBatch,
    cfg: &ModelConfig,
    inputs: GeomInputs,
) -> BasisOut {
    let image = tape.constant(batch.bond_image.pooled_copy());
    // Line 13: B_r_j += B_I @ B_L as a block-diagonal GEMM.
    let offset = tape.block_diag_matmul(image, inputs.lattices, batch.bond_graph.clone(), false);
    let xi = tape.gather(inputs.positions, batch.bond_i.clone());
    let xj = tape.gather(inputs.positions, batch.bond_j.clone());
    let xj_off = tape.add(xj, offset);
    let vec = tape.sub(xj_off, xi);
    let sq = tape.mul(vec, vec);
    let r2 = tape.sum(sq, Axis::Cols);
    let r = tape.sqrt(r2);
    tape.release(&[image, offset, xi, xj, xj_off, sq, r2]);
    let theta = angles_from(tape, batch, vec, r, 0, batch.n_angles, 0);
    let rbf = radial_basis(tape, cfg, r);
    let abf = angular_basis(tape, cfg, theta, batch.n_angles);
    BasisOut {
        geom: Geometry {
            positions: inputs.positions,
            strain: inputs.strain,
            lattices: inputs.lattices,
            bond_vec: vec,
            bond_r: r,
            theta,
        },
        rbf,
        abf,
    }
}

/// Alg. 1: loop over graphs, compute per-graph, concatenate at the end.
fn serial_basis(
    tape: &Tape,
    batch: &GraphBatch,
    cfg: &ModelConfig,
    inputs: GeomInputs,
) -> BasisOut {
    let mut vecs = Vec::with_capacity(batch.n_graphs);
    let mut rs = Vec::with_capacity(batch.n_graphs);
    let mut thetas = Vec::new();
    let mut rbfs = Vec::with_capacity(batch.n_graphs);
    let mut abfs = Vec::new();

    for (gi, rg) in batch.ranges.iter().enumerate() {
        let (a0, a1) = rg.atoms;
        let (b0, b1) = rg.bonds;
        let (an0, an1) = rg.angles;
        let n_bonds = b1 - b0;
        if n_bonds == 0 {
            continue;
        }
        // Lines 3-8 of Alg. 1: per-graph lattice, image, coordinates.
        let pos_g = tape.slice_rows(inputs.positions, a0, a1 - a0);
        let lat_g = tape.slice_rows(inputs.lattices, gi * 3, 3);
        let img_rows = {
            let mut v = Vec::with_capacity(n_bonds * 3);
            for b in b0..b1 {
                v.extend_from_slice(batch.bond_image.row(b));
            }
            tape.constant(Tensor::from_vec(Shape::new(n_bonds, 3), v))
        };
        // Local bond endpoint indices.
        let li: Arc<[u32]> =
            batch.bond_i[b0..b1].iter().map(|&x| x - a0 as u32).collect::<Vec<_>>().into();
        let lj: Arc<[u32]> =
            batch.bond_j[b0..b1].iter().map(|&x| x - a0 as u32).collect::<Vec<_>>().into();
        let off = tape.matmul(img_rows, lat_g);
        let xi = tape.gather(pos_g, li);
        let xj = tape.gather(pos_g, lj);
        let vec = tape.sub(tape.add(xj, off), xi);
        let r2 = tape.sum(tape.mul(vec, vec), Axis::Cols);
        let r = tape.sqrt(r2);
        // Line 9: per-graph sRBF (unfused at the Reference level).
        rbfs.push(radial_basis(tape, cfg, r));
        // Lines 12-16: per-graph angles + Fourier when present.
        if an1 > an0 {
            let theta = angles_from(tape, batch, vec, r, an0, an1 - an0, b0);
            abfs.push(angular_basis(tape, cfg, theta, an1 - an0));
            thetas.push(theta);
        }
        vecs.push(vec);
        rs.push(r);
    }

    // Line 18: concatenate along dimension 0. (A batch can, in principle,
    // contain only bond-less graphs — e.g. dilute gases.)
    let (bond_vec, bond_r, rbf) = if vecs.is_empty() {
        (
            tape.constant(Tensor::zeros(0, 3)),
            tape.constant(Tensor::zeros(0, 1)),
            tape.constant(Tensor::zeros(0, cfg.n_rbf)),
        )
    } else {
        (tape.concat_rows(&vecs), tape.concat_rows(&rs), tape.concat_rows(&rbfs))
    };
    let (theta, abf) = if thetas.is_empty() {
        (tape.constant(Tensor::zeros(0, 1)), tape.constant(Tensor::zeros(0, cfg.n_abf())))
    } else {
        (tape.concat_rows(&thetas), tape.concat_rows(&abfs))
    };
    BasisOut {
        geom: Geometry {
            positions: inputs.positions,
            strain: inputs.strain,
            lattices: inputs.lattices,
            bond_vec,
            bond_r,
            theta,
        },
        rbf,
        abf,
    }
}

/// θ over angle rows `[start, start+len)`, with bond indices rebased by
/// `bond_base` (0 for the batched path, the graph's bond offset for the
/// serial path).
fn angles_from(
    tape: &Tape,
    batch: &GraphBatch,
    bond_vec: Var,
    bond_r: Var,
    start: usize,
    len: usize,
    bond_base: usize,
) -> Var {
    if len == 0 {
        return tape.constant(Tensor::zeros(0, 1));
    }
    let b1: Arc<[u32]> = batch.angle_b1[start..start + len]
        .iter()
        .map(|&x| x - bond_base as u32)
        .collect::<Vec<_>>()
        .into();
    let b2: Arc<[u32]> = batch.angle_b2[start..start + len]
        .iter()
        .map(|&x| x - bond_base as u32)
        .collect::<Vec<_>>()
        .into();
    let v1 = tape.gather(bond_vec, b1.clone());
    let v2 = tape.gather(bond_vec, b2.clone());
    let v12 = tape.mul(v1, v2);
    let dot = tape.sum(v12, Axis::Cols);
    let r1 = tape.gather(bond_r, b1);
    let r2 = tape.gather(bond_r, b2);
    let r12 = tape.mul(r1, r2);
    let cos = tape.div(dot, r12);
    // Periodic self-image bond pairs are *exactly* collinear (cos θ = ±1),
    // where dθ/dcos = -1/√(1-cos²) diverges and poisons the force
    // derivatives with Inf/NaN. Clamping just inside the domain zeroes the
    // (physically stationary) gradient at exact collinearity.
    let cos_safe = tape.clamp(cos, -1.0 + 1e-5, 1.0 - 1e-5);
    let theta = tape.arccos(cos_safe);
    tape.release(&[v1, v2, v12, dot, r1, r2, r12, cos, cos_safe]);
    theta
}

/// Radial basis: fused kernel at `Fusion+`, reference chain below.
fn radial_basis(tape: &Tape, cfg: &ModelConfig, r: Var) -> Var {
    let scfg = cfg.srbf_cfg();
    if cfg.opt_level.fused() {
        return tape.fused_srbf(r, scfg, 0);
    }
    // Reference chain (Eq. 12, un-factored envelope).
    let p = ENVELOPE_P as i32;
    let pf = ENVELOPE_P as f32;
    let xi = tape.scale(r, 1.0 / cfg.atom_cutoff);
    let t0 = tape.scale(tape.powi(xi, p), -(pf + 1.0) * (pf + 2.0) / 2.0);
    let t1 = tape.scale(tape.powi(xi, p + 1), pf * (pf + 2.0));
    let t2 = tape.scale(tape.powi(xi, p + 2), -pf * (pf + 1.0) / 2.0);
    let u = tape.add_scalar(tape.add(tape.add(t0, t1), t2), 1.0);
    // sin(k π r / r_cut) / r for k = 1..n_rbf.
    let freqs: Vec<f32> =
        (1..=cfg.n_rbf).map(|k| k as f32 * std::f32::consts::PI / cfg.atom_cutoff).collect();
    let f = tape.constant(Tensor::row_vec(&freqs));
    let wr = tape.matmul(r, f);
    let s = tape.sin(wr);
    let sr = tape.div(s, r);
    let enveloped = tape.mul(sr, u);
    tape.scale(enveloped, (2.0 / cfg.atom_cutoff).sqrt())
}

/// Angular Fourier basis: fused kernel at `Fusion+`, reference chain below.
fn angular_basis(tape: &Tape, cfg: &ModelConfig, theta: Var, n_angles: usize) -> Var {
    if n_angles == 0 {
        return tape.constant(Tensor::zeros(0, cfg.n_abf()));
    }
    if cfg.opt_level.fused() {
        return tape.fused_fourier(theta, cfg.n_harmonics, 0);
    }
    let ks: Vec<f32> = (1..=cfg.n_harmonics).map(|k| k as f32).collect();
    let krow = tape.constant(Tensor::row_vec(&ks));
    let kt = tape.matmul(theta, krow);
    let cnorm = 1.0 / std::f32::consts::PI.sqrt();
    let cosp = tape.scale(tape.cos(kt), cnorm);
    let sinp = tape.scale(tape.sin(kt), cnorm);
    let dc = tape.constant(Tensor::full(n_angles, 1, 1.0 / (2.0 * std::f32::consts::PI).sqrt()));
    tape.concat_cols(&[dc, cosp, sinp])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use fc_crystal::{CrystalGraph, Element, Lattice, Structure};

    fn two_graph_batch() -> GraphBatch {
        let g1 = CrystalGraph::new(Structure::new(
            Lattice::cubic(3.4),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        ));
        let g2 = CrystalGraph::new(Structure::new(
            Lattice::cubic(3.0),
            vec![Element::new(26)],
            vec![[0.1, 0.0, 0.0]],
        ));
        GraphBatch::collate(&[&g1, &g2], None)
    }

    #[test]
    fn batched_r_matches_host_values() {
        let batch = two_graph_batch();
        let cfg = ModelConfig::tiny(OptLevel::Fusion);
        let tape = Tape::new();
        let out = compute_basis(&tape, &batch, &cfg, false);
        let r = tape.value(out.geom.bond_r);
        assert!(r.approx_eq(&batch.bond_r, 1e-4), "on-tape r disagrees with neighbor list");
    }

    #[test]
    fn serial_and_batched_agree() {
        let batch = two_graph_batch();
        let mut cfg = ModelConfig::tiny(OptLevel::Reference);
        let t1 = Tape::new();
        let ser = compute_basis(&t1, &batch, &cfg, false);
        cfg.opt_level = OptLevel::ParallelBasis;
        let t2 = Tape::new();
        let bat = compute_basis(&t2, &batch, &cfg, false);
        assert!(t1.value(ser.geom.bond_r).approx_eq(&t2.value(bat.geom.bond_r), 1e-4));
        assert!(t1.value(ser.rbf).approx_eq(&t2.value(bat.rbf), 1e-4));
        assert!(t1.value(ser.abf).approx_eq(&t2.value(bat.abf), 1e-4));
        assert!(t1.value(ser.geom.theta).approx_eq(&t2.value(bat.geom.theta), 1e-4));
    }

    #[test]
    fn fused_and_unfused_basis_agree() {
        let batch = two_graph_batch();
        let mut cfg = ModelConfig::tiny(OptLevel::ParallelBasis);
        let t1 = Tape::new();
        let unf = compute_basis(&t1, &batch, &cfg, false);
        cfg.opt_level = OptLevel::Fusion;
        let t2 = Tape::new();
        let fus = compute_basis(&t2, &batch, &cfg, false);
        assert!(t1.value(unf.rbf).approx_eq(&t2.value(fus.rbf), 1e-3));
        assert!(t1.value(unf.abf).approx_eq(&t2.value(fus.abf), 1e-3));
    }

    #[test]
    fn batched_launches_fewer_kernels_than_serial() {
        let batch = two_graph_batch();
        let mut cfg = ModelConfig::tiny(OptLevel::Reference);
        let t1 = Tape::new();
        let _ = compute_basis(&t1, &batch, &cfg, false);
        let serial_k = t1.profiler().snapshot().kernels;
        cfg.opt_level = OptLevel::ParallelBasis;
        let t2 = Tape::new();
        let _ = compute_basis(&t2, &batch, &cfg, false);
        let batched_k = t2.profiler().snapshot().kernels;
        assert!(batched_k < serial_k, "batched {batched_k} vs serial {serial_k}");
    }

    #[test]
    fn theta_matches_graph_angles() {
        let batch = two_graph_batch();
        let cfg = ModelConfig::tiny(OptLevel::Fusion);
        let tape = Tape::new();
        let out = compute_basis(&tape, &batch, &cfg, false);
        let theta = tape.value(out.geom.theta);
        assert_eq!(theta.rows(), batch.n_angles);
        // Spot-check against host-side angle (from the graph builder).
        // Rebuild graphs to compare.
        let g1 = CrystalGraph::new(Structure::new(
            Lattice::cubic(3.4),
            vec![Element::new(3), Element::new(8)],
            vec![[0.0; 3], [0.5, 0.5, 0.5]],
        ));
        let carts = g1.structure.cart_coords();
        for (k, a) in g1.angles.iter().enumerate() {
            let (b1, b2) = (&g1.bonds[a.b_ij as usize], &g1.bonds[a.b_ik as usize]);
            let (v1, v2) = (
                b1.vector(&g1.structure.lattice, &carts),
                b2.vector(&g1.structure.lattice, &carts),
            );
            let dot: f64 = v1.iter().zip(&v2).map(|(x, y)| x * y).sum();
            let host = (dot / (b1.r * b2.r)).clamp(-1.0, 1.0).acos();
            // 5e-3 tolerance: the on-tape path clamps cos θ to ±(1-1e-5)
            // (collinearity regularisation), shifting exact 0/π angles by
            // ~4.5 mrad.
            assert!(
                (theta.at(k, 0) as f64 - host).abs() < 5e-3,
                "angle {k}: tape {} vs host {host}",
                theta.at(k, 0),
            );
        }
    }

    #[test]
    fn derivative_inputs_present_when_requested() {
        let batch = two_graph_batch();
        let cfg = ModelConfig::tiny(OptLevel::Fusion);
        let tape = Tape::new();
        let out = compute_basis(&tape, &batch, &cfg, true);
        assert!(out.geom.strain.is_some());
        assert!(tape.requires_grad(out.geom.positions));
        assert!(tape.requires_grad(out.geom.bond_r));
        let t2 = Tape::new();
        let out2 = compute_basis(&t2, &batch, &cfg, false);
        assert!(out2.geom.strain.is_none());
        assert!(!t2.requires_grad(out2.geom.bond_r));
    }

    #[test]
    fn strain_gradient_is_virial_consistent() {
        // dE/dε for E = Σ r² should equal Σ 2 v ⊗ v (per graph).
        let batch = two_graph_batch();
        let cfg = ModelConfig::tiny(OptLevel::Fusion);
        let tape = Tape::new();
        let out = compute_basis(&tape, &batch, &cfg, true);
        let e = tape.sum_all(tape.mul(out.geom.bond_r, out.geom.bond_r));
        let gm = tape.backward(e);
        let gs = tape.value(gm.get(out.geom.strain.unwrap()).expect("strain grad"));
        // Host-side virial of Σ r²: Σ_bonds 2 v_a v_b per graph.
        let vecs = tape.value(out.geom.bond_vec);
        let mut expect = Tensor::zeros(batch.n_graphs * 3, 3);
        for (b, &g) in batch.bond_graph.iter().enumerate() {
            for a in 0..3 {
                for c in 0..3 {
                    *expect.at_mut(g as usize * 3 + a, c) += 2.0 * vecs.at(b, a) * vecs.at(b, c);
                }
            }
        }
        assert!(gs.approx_eq(&expect, 1e-2), "virial mismatch");
    }
}
