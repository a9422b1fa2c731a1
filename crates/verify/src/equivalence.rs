//! Equivalence suite: implementation pairs that must agree.
//!
//! FastCHGNet's optimization ladder replaces reference code paths with
//! faster ones; each replacement is only admissible if it computes the
//! same function. This module pins down the pairs:
//!
//! * **Batched vs serial basis** (Alg. 2 vs Alg. 1) — identical math in
//!   a different launch order; predictions must match to f32 rounding.
//! * **Fused vs unfused kernels** — the fused sRBF/Fourier/LayerNorm
//!   kernels against the composed primitive chains, through both the
//!   value and the derivative path.
//! * **N-device vs single-device cluster step** — data parallelism with
//!   gradient averaging must track the one-big-device step, and the
//!   tree all-reduce must be bitwise deterministic (fixed reduction
//!   order), so repeated N-device steps from the same state produce
//!   bit-identical parameters.
//! * **Worker-count independence** — running the ranks on 1, 2 or `n`
//!   worker threads must give bit-identical parameters.
//! * **Final vs retained backward** — the training step's freeing,
//!   fused final sweep against the retained `backward` on a fresh pool
//!   must give bit-identical parameters.
//! * **Column-block views vs the materialised chain** — a GatedMLP linear
//!   reading a shared view in place must give bit-identical values and
//!   gradients to gathers + `concat_cols` + `linear` + `slice_cols`.
//! * **Inference vs retaining forward** — `Chgnet::forward`, which frees
//!   each intermediate after its last read, must predict bit-identically
//!   to `Chgnet::forward_for_backward`, which keeps every node.

use crate::physics::CheckResult;
use fc_core::{compute_basis, Chgnet, ModelConfig, OptLevel};
use fc_crystal::{
    CrystalGraph, DatasetConfig, Element, GraphBatch, Lattice, Sample, Structure, SynthMPtrj,
};
use fc_tensor::{par, pool, ParamStore, PoolCore, Tape, Tensor, Var};
use fc_train::{
    clip_grad_norm, composite_loss, partition, Adam, Cluster, ClusterConfig, ExecutionMode,
};
use rand::{rngs::StdRng, SeedableRng};

/// Max absolute element difference between two equal-shape tensors.
fn max_abs_diff(a: &Tensor, b: &Tensor) -> (f64, usize) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch");
    let mut max = 0.0f64;
    let mut at = 0usize;
    for (k, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        let d = f64::from((x - y).abs());
        if d > max {
            max = d;
            at = k;
        }
    }
    (max, at)
}

/// A three-graph batch with different sizes/species so per-graph slicing
/// bugs cannot hide behind symmetry.
pub fn probe_batch() -> GraphBatch {
    let g1 = CrystalGraph::new(Structure::new(
        Lattice::cubic(3.4),
        vec![Element::new(3), Element::new(8)],
        vec![[0.02, 0.0, 0.0], [0.5, 0.48, 0.51]],
    ));
    let g2 = CrystalGraph::new(Structure::new(
        Lattice::cubic(3.0),
        vec![Element::new(26)],
        vec![[0.1, 0.0, 0.0]],
    ));
    let g3 = CrystalGraph::new(Structure::new(
        Lattice::orthorhombic(3.1, 3.6, 4.0),
        vec![Element::new(11), Element::new(17), Element::new(8)],
        vec![[0.0, 0.0, 0.05], [0.5, 0.5, 0.45], [0.25, 0.7, 0.1]],
    ));
    GraphBatch::collate(&[&g1, &g2, &g3], None)
}

/// Fused sRBF/Fourier kernels vs the unfused reference chains, on the
/// basis outputs of a mixed batch.
pub fn check_fused_basis_values(tol: f64) -> CheckResult {
    let batch = probe_batch();
    let mut cfg = ModelConfig::tiny(OptLevel::ParallelBasis);
    let t_unf = Tape::new();
    let unf = compute_basis(&t_unf, &batch, &cfg, false);
    cfg.opt_level = OptLevel::Fusion;
    let t_fus = Tape::new();
    let fus = compute_basis(&t_fus, &batch, &cfg, false);

    let (rbf_err, rbf_at) = max_abs_diff(&t_unf.value(unf.rbf), &t_fus.value(fus.rbf));
    let (abf_err, abf_at) = max_abs_diff(&t_unf.value(unf.abf), &t_fus.value(fus.abf));
    let (max_err, detail) = if rbf_err >= abf_err {
        (rbf_err, format!("rbf element {rbf_at}"))
    } else {
        (abf_err, format!("abf element {abf_at}"))
    };
    CheckResult { name: "fused_vs_unfused_basis".into(), max_err, tol, detail }
}

/// Fused LayerNorm kernel vs the composed primitive chain: values and
/// the full input Jacobian.
pub fn check_fused_layer_norm(tol: f64) -> CheckResult {
    let x0 = Tensor::from_vec(
        fc_tensor::Shape::new(3, 4),
        vec![0.3, -0.7, 1.1, 0.45, -0.2, 0.8, 0.15, 0.6, -0.4, 0.9, -0.1, 0.2],
    );
    let gamma = Tensor::from_vec(fc_tensor::Shape::new(1, 4), vec![1.1, 0.9, 1.3, 0.8]);
    let beta = Tensor::from_vec(fc_tensor::Shape::new(1, 4), vec![0.1, -0.2, 0.05, 0.0]);

    let eval = |fused: bool| -> (Tensor, Tensor) {
        let t = Tape::new();
        let x = t.input(x0.clone());
        let g = t.constant(gamma.clone());
        let b = t.constant(beta.clone());
        let y = if fused { t.fused_layer_norm(x, g, b, 1e-5) } else { t.layer_norm(x, g, b, 1e-5) };
        let jac = t.jacobian(y, x);
        (t.value(y), jac)
    };
    let (yf, jf) = eval(true);
    let (yu, ju) = eval(false);
    let (v_err, v_at) = max_abs_diff(&yf, &yu);
    let (j_err, j_at) = max_abs_diff(&jf, &ju);
    let (max_err, detail) = if v_err >= j_err {
        (v_err, format!("value element {v_at}"))
    } else {
        (j_err, format!("jacobian element {j_at}"))
    };
    CheckResult { name: "fused_vs_unfused_layer_norm".into(), max_err, tol, detail }
}

/// Fused gate kernel vs `sigmoid(a) * silu(b)`: values and Jacobians
/// with respect to both operands (probed via a shared input).
pub fn check_fused_gate(tol: f64) -> CheckResult {
    let x0 = Tensor::from_vec(fc_tensor::Shape::new(2, 3), vec![0.3, -0.7, 1.1, 0.45, -0.2, 0.8]);
    let eval = |fused: bool| -> (Tensor, Tensor) {
        let t = Tape::new();
        let x = t.input(x0.clone());
        let c = t.constant(Tensor::from_vec(
            fc_tensor::Shape::new(2, 3),
            vec![0.6, 1.3, -0.9, 2.1, 0.45, -1.8],
        ));
        // Gate both ways so the VJPs of both operands are exercised.
        let y1 = if fused { t.fused_gate(x, c) } else { t.mul(t.sigmoid(x), t.silu(c)) };
        let y2 = if fused { t.fused_gate(c, x) } else { t.mul(t.sigmoid(c), t.silu(x)) };
        let y = t.add(y1, y2);
        let jac = t.jacobian(y, x);
        (t.value(y), jac)
    };
    let (yf, jf) = eval(true);
    let (yu, ju) = eval(false);
    let (v_err, v_at) = max_abs_diff(&yf, &yu);
    let (j_err, j_at) = max_abs_diff(&jf, &ju);
    let (max_err, detail) = if v_err >= j_err {
        (v_err, format!("value element {v_at}"))
    } else {
        (j_err, format!("jacobian element {j_at}"))
    };
    CheckResult { name: "fused_vs_unfused_gate".into(), max_err, tol, detail }
}

/// Forward two same-seed models at different opt levels over the same
/// batch and report the worst energy/forces/stress discrepancy.
fn compare_levels(a: OptLevel, b: OptLevel, seed: u64, name: &str, tol: f64) -> CheckResult {
    let batch = probe_batch();
    let predict = |level: OptLevel| -> (Tensor, Tensor, Tensor) {
        let mut store = ParamStore::new();
        let model = Chgnet::new(ModelConfig::tiny(level), &mut store, seed);
        let tape = Tape::new();
        let p = model.forward(&tape, &store, &batch);
        (tape.value(p.energy), tape.value(p.forces), tape.value(p.stress))
    };
    let (ea, fa, sa) = predict(a);
    let (eb, fb, sb) = predict(b);
    let (e_err, e_at) = max_abs_diff(&ea, &eb);
    let (f_err, f_at) = max_abs_diff(&fa, &fb);
    let (s_err, s_at) = max_abs_diff(&sa, &sb);
    let mut max_err = e_err;
    let mut detail = format!("energy graph {e_at}");
    if f_err > max_err {
        max_err = f_err;
        detail = format!("force element {f_at}");
    }
    if s_err > max_err {
        max_err = s_err;
        detail = format!("stress element {s_at}");
    }
    CheckResult { name: name.into(), max_err, tol, detail }
}

/// Alg. 2's batched basis vs Alg. 1's per-graph serial basis, through
/// the full model (energy, forces, stress on a mixed batch).
pub fn check_batched_vs_serial_model(seed: u64, tol: f64) -> CheckResult {
    compare_levels(
        OptLevel::Reference,
        OptLevel::ParallelBasis,
        seed,
        "batched_vs_serial_basis_model",
        tol,
    )
}

/// The fully fused level vs the unfused batched level through the whole
/// derivative path (forces/stress come from the fused kernels' VJPs).
pub fn check_fusion_vs_parallel_model(seed: u64, tol: f64) -> CheckResult {
    compare_levels(OptLevel::ParallelBasis, OptLevel::Fusion, seed, "fused_vs_unfused_model", tol)
}

fn cluster_dataset(seed: u64) -> SynthMPtrj {
    SynthMPtrj::generate(&DatasetConfig {
        n_structures: 8,
        max_atoms: 8,
        seed,
        ..Default::default()
    })
}

fn make_cluster(n_devices: usize, seed: u64) -> Cluster {
    Cluster::new(
        ModelConfig::tiny(OptLevel::Decoupled),
        seed,
        ClusterConfig { n_devices, grad_clip: None, ..Default::default() },
        CLUSTER_LR as f32,
    )
}

/// Learning rate used by the cluster equivalence checks (the parameter
/// bound below is stated in multiples of it).
const CLUSTER_LR: f64 = 1e-3;

/// One N-device data-parallel step vs the single-device step.
///
/// Adam's first step moves every parameter by exactly `±lr` (the
/// bias-corrected `m/√v` is the gradient's sign), so two runs whose
/// gradients agree up to f32 reduction noise can still differ by `2·lr`
/// on elements whose near-zero gradient flips sign. The structural bound
/// is therefore `2·lr` (+5% headroom) on parameters — anything above it
/// means the N-device gradient genuinely diverged — plus a loose
/// agreement bound on the reported loss (per-device means weight
/// variable-size graphs differently than the global mean, so it is not
/// exact).
pub fn check_cluster_one_vs_n(n_devices: usize) -> Vec<CheckResult> {
    let data = cluster_dataset(41);
    let samples: Vec<&Sample> = data.samples.iter().collect();
    let mut c1 = make_cluster(1, 5);
    let mut cn = make_cluster(n_devices, 5);
    let s1 = c1.train_step(&samples);
    let sn = cn.train_step(&samples);

    let mut max_err = 0.0f64;
    let mut detail = String::from("all parameters within the Adam step bound");
    for (id, e1) in c1.store.iter() {
        let en = cn.store.entry(id);
        let (d, at) = max_abs_diff(&e1.value, &en.value);
        if d > max_err {
            max_err = d;
            detail = format!("param '{}' element {at}", e1.name);
        }
    }
    let param_check = CheckResult {
        name: format!("cluster_1_vs_{n_devices}_devices_params"),
        max_err,
        tol: 2.1 * CLUSTER_LR,
        detail,
    };
    let loss_rel = (s1.loss - sn.loss).abs() / (1.0 + s1.loss.abs().max(sn.loss.abs()));
    let loss_check = CheckResult {
        name: format!("cluster_1_vs_{n_devices}_devices_loss"),
        max_err: loss_rel,
        tol: 0.05,
        detail: format!("loss {} (1 dev) vs {} ({n_devices} dev)", s1.loss, sn.loss),
    };
    vec![param_check, loss_check]
}

/// Bit-exact comparison at tolerance 0: `max_err` counts the parameter
/// scalars whose bits differ between `reference` and each labelled
/// candidate store, and the detail names the first mismatch.
fn bitwise_params_check(
    name: String,
    reference: &ParamStore,
    candidates: &[(String, ParamStore)],
) -> CheckResult {
    let mut mismatches = 0u64;
    let mut detail = String::from("bit-identical");
    for (label, candidate) in candidates {
        for (id, er) in reference.iter() {
            let ec = candidate.entry(id);
            for (k, (x, y)) in er.value.data().iter().zip(ec.value.data()).enumerate() {
                if x.to_bits() != y.to_bits() {
                    if mismatches == 0 {
                        detail = format!("first mismatch: {label} param '{}' element {k}", er.name);
                    }
                    mismatches += 1;
                }
            }
        }
    }
    CheckResult { name, max_err: mismatches as f64, tol: 0.0, detail }
}

/// Bitwise determinism of the N-device step: two clusters built from the
/// same seed, stepped on the same batch, must end with bit-identical
/// parameters (the all-reduce has a fixed reduction order).
pub fn check_cluster_determinism(n_devices: usize) -> CheckResult {
    let data = cluster_dataset(43);
    let samples: Vec<&Sample> = data.samples.iter().collect();
    let mut ca = make_cluster(n_devices, 9);
    let mut cb = make_cluster(n_devices, 9);
    ca.train_step(&samples);
    cb.train_step(&samples);
    bitwise_params_check(
        format!("cluster_{n_devices}_device_determinism"),
        &ca.store,
        &[("second run".into(), cb.store)],
    )
}

/// Worker-count independence of rank execution: the same cluster seed
/// stepped on `Threaded(1)`, `Threaded(2)` and `Threaded(n)` must end with
/// bit-identical parameters. Rank work is independent (own tapes, the
/// shared master parameters only read) and every worker count combines
/// gradients through the fixed-order tree reduction, so worker threads may
/// not leak scheduling into f32.
pub fn check_worker_count_bitwise(n_devices: usize) -> CheckResult {
    let data = cluster_dataset(47);
    let samples: Vec<&Sample> = data.samples.iter().collect();
    let step_with = |threads: usize| {
        let mut c = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            13,
            ClusterConfig {
                n_devices,
                execution: ExecutionMode::Threaded(threads),
                ..Default::default()
            },
            CLUSTER_LR as f32,
        );
        c.train_step(&samples);
        c.store
    };
    let candidates: Vec<(String, ParamStore)> =
        [2, n_devices].into_iter().map(|t| (format!("Threaded({t})"), step_with(t))).collect();
    bitwise_params_check(
        format!("cluster_worker_count_bitwise_{n_devices}_devices"),
        &step_with(1),
        &candidates,
    )
}

/// The final backward sweep (fused VJPs, frees at last use, in-place
/// accumulation, pooled buffers) against the retained `backward`, at
/// tolerance 0: two `Cluster::train_step`s against the same two steps built
/// by hand — sampler shard, forward, composite loss, retained `backward`,
/// clip, Adam. Each reference step runs on a fresh buffer pool and the
/// retained sweep frees nothing before the tape's reset, so every reference
/// acquire is a plain allocation. The cluster's second step runs against a
/// warm pool, so recycled buffers feed every kernel there.
pub fn check_final_sweep_bitwise(level: OptLevel) -> CheckResult {
    let data = cluster_dataset(53);
    let samples: Vec<&Sample> = data.samples.iter().collect();
    let cfg = ClusterConfig::default();
    let mut cluster = Cluster::new(ModelConfig::tiny(level), 17, cfg, CLUSTER_LR as f32);
    cluster.train_step(&samples);
    cluster.train_step(&samples);

    let mut store = ParamStore::new();
    let model = Chgnet::new(ModelConfig::tiny(level), &mut store, 17);
    let mut opt = Adam::new(&store, CLUSTER_LR as f32);
    let features: Vec<usize> = samples.iter().map(|s| s.graph.feature_number()).collect();
    let shard = &partition(&features, 1, cfg.sampler)[0];
    let graphs: Vec<_> = shard.iter().map(|&i| &samples[i].graph).collect();
    let labels: Vec<_> = shard.iter().map(|&i| &samples[i].labels).collect();
    let batch = GraphBatch::collate(&graphs, Some(&labels));
    let outer_pool = pool::take_core();
    par::with_width(1, || {
        for _ in 0..2 {
            pool::install_core(PoolCore::default());
            let tape = Tape::new();
            let pred = model.forward_for_backward(&tape, &store, &batch);
            let bl = batch.labels.as_ref().expect("collated with labels");
            let loss = composite_loss(&tape, &pred, bl, &cluster.loss_weights);
            store.zero_grads();
            let gm = tape.backward(loss.total);
            store.accumulate_grads(&tape, &gm);
            tape.reset();
            if let Some(max) = cfg.grad_clip {
                clip_grad_norm(&mut store, max);
            }
            opt.step(&mut store);
        }
    });
    pool::install_core(outer_pool);
    bitwise_params_check(
        format!("final_sweep_bitwise_{level:?}"),
        &store,
        &[("final sweep".into(), cluster.store)],
    )
}

/// A shared view against the materialised chain it replaces, at
/// tolerance 0. The probe batch's angle features `[v[centre], e[b1],
/// e[b2], a]` feed two packed GatedMLP linears (Bond Conv and Angle Update
/// of a dependency-eliminated block): one `column_blocks` view read by
/// `linear_split`, or gathers + `concat_cols` + `linear` + `slice_cols`.
/// Compares the forward values and every leaf's gradient from `backward`
/// and from `backward_final`. At `Fusion` the loss adds the squared
/// `backward` gradient in `v`, the second order of derivative-force
/// training; at `Decoupled` it is first order. `max_err` counts the
/// elements that differ.
pub fn check_column_block_linear_bitwise(level: OptLevel) -> CheckResult {
    let batch = probe_batch();
    let fea = 8;
    let mut rng = StdRng::seed_from_u64(61);
    let mut draw = |r: usize, c: usize| fc_tensor::init::uniform(&mut rng, r, c, -1.5, 1.5);
    let features = [batch.n_atoms, batch.n_bonds, batch.n_angles].map(|rows| draw(rows, fea));
    let linears: [[Tensor; 4]; 2] = std::array::from_fn(|_| {
        [draw(4 * fea, 2 * fea), draw(1, 2 * fea), draw(1, fea), draw(1, fea)]
    });
    let bits =
        |t: &Tape, v: Var| -> Vec<u32> { t.value(v).data().iter().map(|x| x.to_bits()).collect() };
    let run = |views: bool, final_sweep: bool| -> Vec<Vec<u32>> {
        let t = Tape::new();
        let [v, e, a] = features.clone().map(|x| t.input(x));
        let blocks = [
            (v, Some(batch.angle_center.clone())),
            (e, Some(batch.angle_b1.clone())),
            (e, Some(batch.angle_b2.clone())),
            (a, None),
        ];
        let x = if views { t.column_blocks(&blocks) } else { t.gather_concat(&blocks) };
        let mut leaves = vec![v, e, a];
        let messages = linears.clone().map(|p| {
            let [w, b, gamma, beta] = p.map(|p| t.input(p));
            leaves.extend([w, b, gamma, beta]);
            let [gate, core] = if views {
                t.linear_split(x, w, b)
            } else {
                let h = t.linear(x, w, b);
                [t.slice_cols(h, 0, fea), t.slice_cols(h, fea, fea)]
            };
            let ln = |h| t.fused_layer_norm(h, gamma, beta, 1e-5);
            t.fused_gate(ln(gate), ln(core))
        });
        // Bond Conv's messages onto their bonds, Angle Update's onto the
        // angles.
        let e_new = t.segment_sum(messages[0], batch.angle_b1.clone(), batch.n_bonds);
        let dot = |x, y| t.sum_all(t.mul(x, y));
        let mut loss = t.add(dot(e_new, e), dot(messages[1], a));
        if !level.decoupled_heads() {
            let force = t.backward(loss).get(v).expect("a gradient in v");
            loss = t.add(loss, t.sum_all(t.square(force)));
        }
        let mut out: Vec<Vec<u32>> = messages.iter().chain([&loss]).map(|&m| bits(&t, m)).collect();
        let gm = if final_sweep { t.backward_final(loss) } else { t.backward(loss) };
        out.extend(leaves.iter().map(|&l| gm.get(l).map_or_else(Vec::new, |g| bits(&t, g))));
        out
    };
    let mut mismatches = 0u64;
    let mut detail = String::from("bit-identical forward, backward and backward_final");
    for final_sweep in [false, true] {
        for (i, (want, got)) in
            run(false, final_sweep).iter().zip(run(true, final_sweep)).enumerate()
        {
            let differ = want.len().abs_diff(got.len())
                + want.iter().zip(&got).filter(|(w, g)| w != g).count();
            if differ > 0 && mismatches == 0 {
                detail =
                    format!("final sweep {final_sweep}: output {i} differs in {differ} elements");
            }
            mismatches += differ as u64;
        }
    }
    CheckResult {
        name: format!("column_block_linear_bitwise_{level:?}"),
        max_err: mismatches as f64,
        tol: 0.0,
        detail,
    }
}

/// The fused message-path launches against the chains they stand for,
/// at tolerance 0, on the probe batch: the packed bond embedding
/// (`linear_split` of 3 outputs, or `linear` + 3 `slice_cols`), then Atom
/// Conv and Bond Conv of one dependency-eliminated block, each GatedMLP's
/// LayerNorms and gate (`fused_ln_gate`, or 2 `fused_layer_norm` +
/// `fused_gate`), the weighted message sums (`weighted_segment_sum` with
/// `e^a` read whole and `e^b` read through both angle bond tables, or
/// gathers, products and `segment_sum`) and the output linears
/// (`linear_split` of 1 output, or `matmul` + `add`). Compares the
/// forward values and every leaf's gradient from `backward` and from
/// `backward_final`. At `Fusion` the loss adds the squared `backward`
/// gradient in `v` (second order); at `Decoupled` it is first order.
/// `max_err` counts the elements that differ.
pub fn check_fused_message_path_bitwise(level: OptLevel) -> CheckResult {
    let batch = probe_batch();
    let fea = 8;
    let mut rng = StdRng::seed_from_u64(67);
    let mut draw = |r: usize, c: usize| fc_tensor::init::uniform(&mut rng, r, c, -1.5, 1.5);
    let inputs = [batch.n_atoms, batch.n_bonds, batch.n_angles].map(|rows| draw(rows, fea));
    let rbf = draw(batch.n_bonds, 5);
    let embed = [draw(5, 3 * fea), draw(1, 3 * fea)];
    let gated: [[Tensor; 4]; 2] = std::array::from_fn(|i| {
        [draw((3 + i) * fea, 2 * fea), draw(1, 2 * fea), draw(1, fea), draw(1, fea)]
    });
    let outs: [[Tensor; 2]; 2] = std::array::from_fn(|_| [draw(fea, fea), draw(1, fea)]);
    let bits =
        |t: &Tape, v: Var| -> Vec<u32> { t.value(v).data().iter().map(|x| x.to_bits()).collect() };
    let run = |fused: bool, final_sweep: bool| -> Vec<Vec<u32>> {
        let t = Tape::new();
        let [v, e, a] = inputs.clone().map(|x| t.input(x));
        let rbf = t.input(rbf.clone());
        let mut leaves = vec![v, e, a, rbf];
        let mut param = |p: &Tensor| {
            let p = t.input(p.clone());
            leaves.push(p);
            p
        };
        let [w, b] = embed.each_ref().map(&mut param);
        let [e0, ea, eb] = if fused {
            t.linear_split(rbf, w, b)
        } else {
            let h = t.linear(rbf, w, b);
            [0, 1, 2].map(|i| t.slice_cols(h, i * fea, fea))
        };
        let mut message = |blocks: &[(Var, Option<std::sync::Arc<[u32]>>)], p: &[Tensor; 4]| {
            let [w, b, gamma, beta] = p.each_ref().map(&mut param);
            if fused {
                let [gate, core] = t.linear_split(t.column_blocks(blocks), w, b);
                t.fused_ln_gate(gate, core, [gamma, beta], [gamma, beta], 1e-5)
            } else {
                let h = t.linear(t.gather_concat(blocks), w, b);
                let [gate, core] = [0, fea].map(|c| t.slice_cols(h, c, fea));
                let ln = |h| t.fused_layer_norm(h, gamma, beta, 1e-5);
                t.fused_gate(ln(gate), ln(core))
            }
        };
        let (bond_i, bond_j) = (batch.bond_i.clone(), batch.bond_j.clone());
        let (b1, b2) = (batch.angle_b1.clone(), batch.angle_b2.clone());
        let m_atom =
            message(&[(v, Some(bond_i.clone())), (v, Some(bond_j)), (e0, None)], &gated[0]);
        let angle = [
            (v, Some(batch.angle_center.clone())),
            (e0, Some(b1.clone())),
            (e0, Some(b2.clone())),
            (a, None),
        ];
        let m_bond = message(&angle, &gated[1]);
        let (agg_v, agg_e) = if fused {
            let weights = [(eb, Some(b1.clone())), (eb, Some(b2))];
            (
                t.weighted_segment_sum(m_atom, &[(ea, None)], bond_i, batch.n_atoms),
                t.weighted_segment_sum(m_bond, &weights, b1, batch.n_bonds),
            )
        } else {
            let (w1, w2) = (t.gather(eb, b1.clone()), t.gather(eb, b2));
            (
                t.segment_sum(t.mul(ea, m_atom), bond_i, batch.n_atoms),
                t.segment_sum(t.mul(t.mul(w1, w2), m_bond), b1, batch.n_bonds),
            )
        };
        let [v_new, e_new] = [(v, agg_v, &outs[0]), (e0, agg_e, &outs[1])].map(|(x, agg, p)| {
            let [w, b] = p.each_ref().map(&mut param);
            let proj = if fused { t.linear_split::<1>(agg, w, b)[0] } else { t.linear(agg, w, b) };
            t.add(x, proj)
        });
        let dot = |x, y| t.sum_all(t.mul(x, y));
        let mut loss = t.add(dot(v_new, v), dot(e_new, e));
        if !level.decoupled_heads() {
            let force = t.backward(loss).get(v).expect("a gradient in v");
            loss = t.add(loss, t.sum_all(t.square(force)));
        }
        let mut out: Vec<Vec<u32>> =
            [m_atom, m_bond, v_new, e_new, loss].iter().map(|&m| bits(&t, m)).collect();
        let gm = if final_sweep { t.backward_final(loss) } else { t.backward(loss) };
        out.extend(leaves.iter().map(|&l| gm.get(l).map_or_else(Vec::new, |g| bits(&t, g))));
        out
    };
    let mut mismatches = 0u64;
    let mut detail = String::from("bit-identical forward, backward and backward_final");
    for final_sweep in [false, true] {
        for (i, (want, got)) in
            run(false, final_sweep).iter().zip(run(true, final_sweep)).enumerate()
        {
            let differ = want.len().abs_diff(got.len())
                + want.iter().zip(&got).filter(|(w, g)| w != g).count();
            if differ > 0 && mismatches == 0 {
                detail =
                    format!("final sweep {final_sweep}: output {i} differs in {differ} elements");
            }
            mismatches += differ as u64;
        }
    }
    CheckResult {
        name: format!("fused_message_path_bitwise_{level:?}"),
        max_err: mismatches as f64,
        tol: 0.0,
        detail,
    }
}

/// `Chgnet::forward` of the benchmark's quick Decoupled model, which frees
/// each intermediate after its last read, against the retaining
/// `Chgnet::forward_for_backward`, at tolerance 0: energy, forces, stress
/// and magmoms of the md-nve64 cell (Li9Co7O16 2×1×1), of 8 relax-screen
/// cells of 2–16 atoms one by one, and of the first 4 of them as one
/// batch. `max_err` counts the elements that differ.
pub fn check_inference_forward_bitwise(seed: u64) -> CheckResult {
    let cfg = ModelConfig {
        fea: 16,
        n_rbf: 16,
        n_harmonics: 8,
        n_blocks: 2,
        ..ModelConfig::with_level(OptLevel::Decoupled)
    };
    let mut store = ParamStore::new();
    let model = Chgnet::new(cfg, &mut store, seed);
    let (ac, bc) = (model.cfg.atom_cutoff as f64, model.cfg.bond_cutoff as f64);
    let mut rng = StdRng::seed_from_u64(seed);
    let cells: Vec<CrystalGraph> = [2, 3, 4, 6, 8, 10, 12, 16]
        .into_iter()
        .map(|atoms| {
            let cfg = DatasetConfig { min_atoms: atoms, max_atoms: atoms, ..Default::default() };
            let s = fc_crystal::dataset::sane_random_structure(&mut rng, &cfg);
            CrystalGraph::with_cutoffs(s, ac, bc)
        })
        .collect();
    let md = CrystalGraph::with_cutoffs(fc_crystal::known::li9co7o16().supercell(2, 1, 1), ac, bc);
    let mut batches = vec![("md-nve64 cell".to_string(), GraphBatch::collate(&[&md], None))];
    for (i, g) in cells.iter().enumerate() {
        batches
            .push((format!("cell {i} ({} atoms)", g.n_atoms()), GraphBatch::collate(&[g], None)));
    }
    let four: Vec<&CrystalGraph> = cells.iter().take(4).collect();
    batches.push(("4-graph batch".into(), GraphBatch::collate(&four, None)));
    let predict = |batch: &GraphBatch, retaining: bool| -> Vec<Vec<u32>> {
        let tape = Tape::new();
        let p = if retaining {
            model.forward_for_backward(&tape, &store, batch)
        } else {
            model.forward(&tape, &store, batch)
        };
        [p.energy, p.forces, p.stress, p.magmom]
            .map(|v| tape.value(v).data().iter().map(|x| x.to_bits()).collect())
            .to_vec()
    };
    let mut mismatches = 0usize;
    let mut detail = format!("bit-identical on {} batches", batches.len());
    for (name, batch) in &batches {
        let (want, got) = (predict(batch, true), predict(batch, false));
        for (output, (w, g)) in
            ["energy", "forces", "stress", "magmom"].iter().zip(want.iter().zip(&got))
        {
            let differ = w.iter().zip(g).filter(|(w, g)| w != g).count();
            if differ > 0 && mismatches == 0 {
                detail = format!("{name}: {output} differs in {differ} elements");
            }
            mismatches += differ;
        }
    }
    CheckResult {
        name: "inference_forward_bitwise".into(),
        max_err: mismatches as f64,
        tol: 0.0,
        detail,
    }
}

/// The full equivalence suite with default tolerances.
pub fn run_suite(seed: u64) -> Vec<CheckResult> {
    let mut out = vec![
        check_fused_basis_values(1e-3),
        check_fused_layer_norm(1e-4),
        check_fused_gate(1e-5),
        check_batched_vs_serial_model(seed, 1e-3),
        check_fusion_vs_parallel_model(seed, 5e-2),
    ];
    out.extend(check_cluster_one_vs_n(4));
    out.push(check_cluster_determinism(4));
    out.push(check_worker_count_bitwise(4));
    for level in
        [OptLevel::Reference, OptLevel::ParallelBasis, OptLevel::Fusion, OptLevel::Decoupled]
    {
        out.push(check_final_sweep_bitwise(level));
    }
    for level in [OptLevel::Fusion, OptLevel::Decoupled] {
        out.push(check_column_block_linear_bitwise(level));
    }
    for level in [OptLevel::Fusion, OptLevel::Decoupled] {
        out.push(check_fused_message_path_bitwise(level));
    }
    out.push(check_inference_forward_bitwise(seed));
    out
}
