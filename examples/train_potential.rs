//! Train a FastCHGNet universal potential on the SynthMPtrj dataset with
//! the paper's recipe: Huber loss (2/1.5/0.1/0.1), Adam, cosine annealing
//! and the Eq. 14 batch-scaled learning rate, on a simulated 4-GPU
//! cluster with the Load Balance Sampler.
//!
//! Run: `cargo run --release --example train_potential`

use fastchgnet::prelude::*;

fn main() {
    // A small synthetic dataset (the paper uses the 1.58M-structure
    // MPtrj; see DESIGN.md for the substitution).
    let data = SynthMPtrj::generate(&DatasetConfig {
        n_structures: 120,
        max_atoms: 10,
        ..Default::default()
    });
    println!(
        "dataset: {} samples, split {}/{}/{}",
        data.samples.len(),
        data.train.len(),
        data.val.len(),
        data.test.len()
    );

    let cfg = TrainConfig {
        model: ModelConfig::tiny(OptLevel::Decoupled),
        seed: 7,
        epochs: 6,
        global_batch: 16,
        cluster: ClusterConfig {
            n_devices: 4,
            sampler: SamplerKind::LoadBalance,
            ..Default::default()
        },
        lr: LrPolicy::Scaled,
    };
    println!(
        "training FastCHGNet ({} epochs, global batch {}, {} simulated GPUs, init LR {:.5})\n",
        cfg.epochs,
        cfg.global_batch,
        cfg.cluster.n_devices,
        cfg.lr.initial_lr(cfg.global_batch)
    );

    let (cluster, report) = fastchgnet::train::train_model(&data, &cfg);

    println!("epoch | train loss | val E (meV/atom) | val F (meV/Å) | wall time");
    for l in &report.epochs {
        println!(
            "{:>5} | {:>10.4} | {:>16.1} | {:>13.1} | {:>7.2} s",
            l.epoch,
            l.train_loss,
            l.val.e_mae * 1e3,
            l.val.f_mae * 1e3,
            l.wall_time
        );
    }
    println!("\ntest metrics: {}", report.test.summary());

    // Save a checkpoint and reload it.
    let path = std::env::temp_dir().join("fastchgnet_example.ckpt");
    fastchgnet::train::save_checkpoint(&cluster.store, &path).expect("save");
    let reloaded = fastchgnet::train::load_checkpoint(&path).expect("load");
    println!("checkpoint round-trip: {} parameter tensors at {}", reloaded.len(), path.display());
}
