//! # fc_tensor — CPU tensor & autodiff engine for FastCHGNet-rs
//!
//! A from-scratch, single-precision, 2-D tensor library with tape-based
//! reverse-mode automatic differentiation. It stands in for the
//! PyTorch/CUDA stack of the FastCHGNet paper and supports everything the
//! paper's training loop needs:
//!
//! * **Second-order derivatives** — the VJP of every op is emitted as new
//!   tape nodes, so gradients are differentiable (PyTorch's
//!   `create_graph=True`). Required because reference CHGNet obtains forces
//!   as `F = -∂E/∂x` and then differentiates the force loss w.r.t. weights.
//! * **Fused kernels** — `FusedSRBF`, `FusedFourier`, `FusedGate` and
//!   block-diagonal GEMM collapse the multi-kernel chains of the reference
//!   implementation into single kernels ("kernel fusion" + "redundancy
//!   bypass", §III-C of the paper). The radial/angular fused bases are
//!   closed under differentiation via an analytic `order` parameter.
//! * **Profiling** — every node execution counts as one launched kernel and
//!   every live node buffer counts toward device memory, reproducing the
//!   paper's Fig. 8 metrics on the simulated device. Each kernel is also
//!   charged FLOPs and minimum bytes moved ([`cost`]), so arithmetic
//!   intensity and achieved GFLOP/s are reportable per phase and per op.
//!
//! ## Quick example
//!
//! ```
//! use fc_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let x = tape.input(Tensor::row_vec(&[1.0, 2.0, 3.0]));
//! let y = tape.sum_all(tape.square(x)); // y = Σ x²
//! let grads = tape.backward(y);
//! let gx = tape.value(grads.get(x).unwrap());
//! assert_eq!(gx.data(), &[2.0, 4.0, 6.0]);
//! ```

pub mod backward;
pub mod cost;
pub mod init;
pub mod kernels;
pub mod op;
pub mod par;
pub mod param;
pub mod pool;
pub mod profiler;
pub mod shape;
pub mod tape;
pub mod tensor;

pub use backward::GradMap;
pub use cost::{op_cost, OpCost, DIV_FLOPS, TRANSCENDENTAL_FLOPS};
pub use kernels::elementwise::{BinKind, UnKind};
pub use kernels::fused::SrbfCfg;
pub use kernels::reduce::Axis;
pub use op::Var;
pub use param::{ParamEntry, ParamId, ParamStore};
pub use pool::{PoolCore, PoolStats};
pub use profiler::{OpTotals, ProfileSnapshot, Profiler};
pub use shape::{Bcast, Shape};
pub use tape::Tape;
pub use tensor::Tensor;

/// Run `f` with this thread's `key` set to `value`, restoring the previous
/// value afterwards, also on panic.
pub(crate) fn with_local<T: Copy, R>(
    key: &'static std::thread::LocalKey<std::cell::Cell<T>>,
    value: T,
    f: impl FnOnce() -> R,
) -> R {
    struct Restore<T: Copy + 'static>(&'static std::thread::LocalKey<std::cell::Cell<T>>, T);
    impl<T: Copy + 'static> Drop for Restore<T> {
        fn drop(&mut self) {
            self.0.with(|c| c.set(self.1));
        }
    }
    let _restore = Restore(key, key.with(|c| c.replace(value)));
    f()
}
