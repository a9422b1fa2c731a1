//! # fastchgnet — reproduction of "FastCHGNet: Training One Universal
//! Interatomic Potential to 1.5 Hours with 32 GPUs" (IPPS 2025)
//!
//! This facade crate re-exports the full workspace:
//!
//! * [`tensor`] — CPU tape autodiff engine with second-order derivatives,
//!   fused kernels and kernel/memory profiling,
//! * [`crystal`] — structures, periodic graphs, batching and the
//!   SynthMPtrj synthetic-DFT dataset,
//! * [`core`] — CHGNet / FastCHGNet models (Force/Stress heads,
//!   dependency elimination, Alg. 1 / Alg. 2 basis paths),
//! * [`train`] — Huber loss, Adam + cosine annealing + Eq. 14 LR scaling,
//!   samplers, the simulated multi-GPU cluster (rank gradients combined
//!   by one serial tree reduction; the ring all-reduce is only
//!   `CommModel`'s cost), metrics,
//! * [`md`] — velocity-Verlet MD driven by the models,
//! * [`telemetry`] — scoped spans, metrics registry, and structured run
//!   reports written as a JSONL event stream.
//!
//! ## Quickstart
//!
//! ```
//! use fastchgnet::prelude::*;
//!
//! // A tiny labelled dataset from the synthetic-DFT oracle.
//! let data = SynthMPtrj::generate(&DatasetConfig {
//!     n_structures: 8,
//!     max_atoms: 6,
//!     ..Default::default()
//! });
//!
//! // A FastCHGNet with Force/Stress heads.
//! let mut store = ParamStore::new();
//! let model = Chgnet::new(ModelConfig::tiny(OptLevel::Decoupled), &mut store, 42);
//!
//! // Predict on one structure.
//! let batch = GraphBatch::collate(&[&data.samples[0].graph], None);
//! let tape = Tape::new();
//! let pred = model.forward(&tape, &store, &batch);
//! assert!(tape.value(pred.energy).all_finite());
//! ```

pub use fc_core as core;
pub use fc_crystal as crystal;
pub use fc_md as md;
pub use fc_telemetry as telemetry;
pub use fc_tensor as tensor;
pub use fc_train as train;

/// One-line imports for examples and downstream users.
pub mod prelude {
    pub use fc_core::{Chgnet, ModelConfig, ModelVariant, OptLevel};
    pub use fc_crystal::{
        evaluate as oracle_evaluate, CrystalGraph, DatasetConfig, Element, GraphBatch, Labels,
        Lattice, Sample, Structure, SynthMPtrj,
    };
    pub use fc_md::{
        relax, run_md, Calculator, Ensemble, FireConfig, ForceField, MdConfig, OracleField,
    };
    pub use fc_tensor::{ParamStore, Shape, Tape, Tensor};
    pub use fc_train::{
        composite_loss, evaluate, Cluster, ClusterConfig, CommModel, EvalMetrics, LossWeights,
        LrPolicy, SamplerKind, TrainConfig,
    };
}
