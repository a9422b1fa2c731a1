//! # fc_train — the FastCHGNet training pipeline
//!
//! Everything between the model and the paper's evaluation numbers:
//!
//! * composite Huber loss with the paper's prefactors (2 / 1.5 / 0.1 / 0.1),
//! * Adam + cosine annealing + the Eq. 14 large-batch LR scaling rule,
//! * the default and Load-Balance batch samplers with the
//!   coefficient-of-variance imbalance metric (Fig. 9),
//! * a deterministic tree reduction of the ranks' gradients,
//! * the simulated multi-GPU [`Cluster`]: numerically exact data
//!   parallelism, one [`Cluster::train_step`] per global batch, measured
//!   per-rank compute time,
//! * seeded epoch batching ([`epoch_batches`]),
//! * the [`ScalingModel`] behind the Fig. 10 strong/weak scaling curves —
//!   the only time model, calibrated from counted kernel work
//!   ([`ScalingModel::calibrate`]), with the α-β ring interconnect cost
//!   ([`CommModel`]) and communication overlap,
//! * metrics (MAE in the paper's units, parity R²) and checkpointing.

pub mod allreduce;
pub mod checkpoint;
pub mod cluster;
pub mod dataloader;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod sampler;
pub mod scaling;
pub mod sched;
pub mod trainer;

pub use allreduce::{tree_reduce, CommModel};
pub use checkpoint::{load_checkpoint, save_checkpoint};
pub use cluster::{place_ranks, Cluster, ClusterConfig, ExecutionMode, StepStats};
pub use dataloader::epoch_batches;
pub use loss::{composite_loss, LossParts, LossWeights};
pub use metrics::{evaluate, evaluate_with_scatter, r2, EvalMetrics, ScatterData};
pub use optim::{clip_grad_norm, Adam};
pub use sampler::{device_loads, load_cov, partition, SamplerKind};
pub use scaling::{
    a100_seconds, fit_linear, strong_efficiency, weak_efficiency, ScalingModel, MPTRJ_EPOCH,
};
pub use sched::{scaled_init_lr, CosineAnnealing, BASE_LR, LR_SCALE_K};
pub use trainer::{train_model, EpochLog, LrPolicy, TrainConfig, TrainReport};
