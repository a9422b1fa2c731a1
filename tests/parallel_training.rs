//! Integration tests of the simulated multi-GPU pipeline: sampler,
//! all-reduce, cluster equivalence and the scaling model.

use fastchgnet::prelude::*;
use fastchgnet::train::{
    device_loads, epoch_batches, load_cov, partition, strong_efficiency, tree_reduce,
    ExecutionMode, ScalingModel,
};

fn dataset() -> SynthMPtrj {
    SynthMPtrj::generate(&DatasetConfig { n_structures: 48, max_atoms: 16, ..Default::default() })
}

#[test]
fn cluster_training_is_deterministic() {
    let data = dataset();
    let samples: Vec<&Sample> = data.samples.iter().take(16).collect();
    let run = || {
        let mut cluster = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            7,
            ClusterConfig { n_devices: 2, ..Default::default() },
            1e-3,
        );
        for _ in 0..3 {
            cluster.train_step(&samples);
        }
        cluster.store.iter().map(|(_, e)| e.value.clone()).collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    for (x, y) in a.iter().zip(&b) {
        assert!(x.approx_eq(y, 0.0), "nondeterministic training");
    }
}

#[test]
fn threaded_cluster_step_is_bitwise_deterministic_under_stress() {
    // The determinism guarantee under scheduler stress: 50 repeats of a
    // cluster step, across worker-thread counts {1, 2, 3, ranks}, must land
    // on the one-worker step's parameters bit for bit every single run.
    // Rank work is independent and the tree all-reduce order is fixed, so
    // no interleaving may leak into f32.
    const RANKS: usize = 4;
    let data = SynthMPtrj::generate(&DatasetConfig {
        n_structures: 8,
        max_atoms: 6,
        ..Default::default()
    });
    let samples: Vec<&Sample> = data.samples.iter().collect();
    let step_with = |execution: ExecutionMode| {
        let mut cluster = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            11,
            ClusterConfig { n_devices: RANKS, execution, ..Default::default() },
            1e-3,
        );
        cluster.train_step(&samples);
        cluster.store.iter().map(|(_, e)| e.value.clone()).collect::<Vec<_>>()
    };
    let reference = step_with(ExecutionMode::Threaded(1));
    for run in 0..50 {
        let threads = [1usize, 2, 3, RANKS][run % 4];
        let got = step_with(ExecutionMode::Threaded(threads));
        for (r, g) in reference.iter().zip(&got) {
            assert_eq!(r.rows(), g.rows());
            for (x, y) in r.data().iter().zip(g.data()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "run {run} ({threads} threads): {x} vs {y} — threading leaked into params"
                );
            }
        }
    }
}

#[test]
fn tree_allreduce_large_payload_matches_the_sum() {
    // Gradient-sized payload across 8 devices: the deterministic tree must
    // leave the elementwise sum in rank 0's buffer to f32 reduction
    // tolerance, and be exactly self-consistent across repeats.
    let n = 64_000;
    let mk = || -> Vec<Vec<f32>> {
        (0..8).map(|d| (0..n).map(|i| ((d * 7 + i) % 13) as f32 * 0.1).collect()).collect()
    };
    let mut tree = mk();
    let expect: Vec<f32> = (0..n).map(|i| tree.iter().map(|b| b[i]).sum()).collect();
    tree_reduce(&mut tree);
    for (x, e) in tree[0].iter().zip(&expect) {
        assert!((x - e).abs() < 1e-3, "tree {x} vs sum {e}");
    }
    let mut tree2 = mk();
    tree_reduce(&mut tree2);
    assert_eq!(tree[0], tree2[0], "tree reduce not reproducible");
}

#[test]
fn gradient_averaging_matches_across_device_counts() {
    // One step with p devices should land close to one step with 1 device
    // on the same batch (f32 reduction-order tolerance).
    let data = dataset();
    let samples: Vec<&Sample> = data.samples.iter().take(8).collect();
    let step_with = |p: usize| {
        let mut cluster = Cluster::new(
            ModelConfig::tiny(OptLevel::Decoupled),
            7,
            ClusterConfig { n_devices: p, grad_clip: None, ..Default::default() },
            1e-3,
        );
        cluster.train_step(&samples);
        cluster.store.iter().map(|(_, e)| e.value.clone()).collect::<Vec<_>>()
    };
    let one = step_with(1);
    let four = step_with(4);
    let mut max_diff = 0.0f32;
    for (a, b) in one.iter().zip(&four) {
        for (x, y) in a.data().iter().zip(b.data()) {
            max_diff = max_diff.max((x - y).abs());
        }
    }
    assert!(max_diff < 5e-3, "divergence between 1 and 4 devices: {max_diff}");
}

#[test]
fn sampler_covers_epoch_and_balances() {
    let data = dataset();
    let features: Vec<usize> = data.samples.iter().map(|s| s.graph.feature_number()).collect();
    let batches = epoch_batches(features.len(), 16, 3);
    let mut seen = vec![false; features.len()];
    let mut cov_lb = 0.0;
    let mut cov_default = 0.0;
    for batch in &batches {
        let bf: Vec<usize> = batch.iter().map(|&i| features[i]).collect();
        let parts = partition(&bf, 4, SamplerKind::LoadBalance);
        let loads = device_loads(&bf, &parts);
        assert_eq!(loads.len(), 4);
        cov_lb += load_cov(&bf, &parts);
        cov_default += load_cov(&bf, &partition(&bf, 4, SamplerKind::Default));
        for &i in batch {
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "epoch missed samples");
    // Balance improves on average across the epoch (individual batches may
    // occasionally invert).
    assert!(
        cov_lb <= cov_default,
        "epoch-mean CoV: load-balance {cov_lb} vs default {cov_default}"
    );
}

#[test]
fn scaling_model_reproduces_paper_shape() {
    // With A100-ish calibration, strong-scaling efficiency must decrease
    // with device count and stay between 50% and 100% at 32 GPUs —
    // the paper's qualitative shape (82.5% @ 8 ... 66% @ 32).
    let model = ScalingModel {
        comm: CommModel::a100_fat_tree(),
        t_fixed: 0.01,
        per_feature: 6e-8,
        grad_bytes: 429_000 * 4,
        sample_cov: 0.2,
    };
    let rows = model.strong_scaling(&[4, 8, 16, 32], 1_422_355, 2048, 3500.0);
    let eff = strong_efficiency(&rows);
    assert!((eff[0].2 - 1.0).abs() < 1e-9);
    for w in eff.windows(2) {
        assert!(w[1].2 < w[0].2, "efficiency should fall: {eff:?}");
    }
    let last = eff.last().unwrap();
    assert!(last.2 > 0.3 && last.2 < 1.0, "32-GPU efficiency {last:?}");
    // Speedup at 32 GPUs lands in a plausible band around the paper's 5.26x.
    assert!(last.1 > 2.0 && last.1 < 8.0, "32-GPU speedup {last:?}");
}
